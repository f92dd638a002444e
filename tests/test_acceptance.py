"""Acceptance suite: ten end-to-end criteria at the documented defaults.

Each criterion prints a single PASS/FAIL line (bypassing pytest capture) so a
plain ``pytest tests/test_acceptance.py`` run shows the scorecard.  Fixtures
here rebuild the default world at full resolution; the whole module targets a
single-digit-minute budget on a laptop.
"""

import hashlib
import json
import math
import sys
import time

import numpy as np
import pytest

from viewrank import ambiguity, classify, cli, manifest, policy, so3, synthworld
from viewrank.baselines import metric_comparison, blob_match_similarity
from viewrank.codebook import build_codebook


_CAPTURE_MANAGER = None


@pytest.fixture(scope="module", autouse=True)
def _capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, line


DEFAULTS = manifest.resolve(None)


@pytest.fixture(scope="module")
def world():
    w = DEFAULTS["world"]
    return synthworld.make_ambiguous_pair(
        DEFAULTS["seed"],
        n_blobs=w["n_blobs"],
        d=w["descriptor_dim"],
        patch_center=tuple(w["patch_center"]),
        patch_radius=w["patch_radius"],
        group_id=w["group_id"],
    )


@pytest.fixture(scope="module")
def default_codebooks(world):
    a, b = world
    grid = so3.build_view_grid(DEFAULTS["codebook"]["n_dirs"], DEFAULTS["codebook"]["n_inplane"])
    return [build_codebook(a, grid), build_codebook(b, grid)]


@pytest.fixture(scope="module")
def default_tables(world, default_codebooks):
    a, b = world
    coarse = so3.build_view_grid(DEFAULTS["ranking"]["coarse_dirs"], 1)
    steps = DEFAULTS["ranking"]["descent_steps"]
    return {
        "A": ambiguity.rank_object(a, [b], [default_codebooks[1]], coarse, steps, threads=4),
        "B": ambiguity.rank_object(b, [a], [default_codebooks[0]], coarse, steps, threads=4),
    }


def test_criterion_01_exact_ambiguity_ground_truth(world, default_codebooks):
    # Orientations that hide the differing patch render identically for the
    # twins, so their raw similarity must be exactly 1; every other
    # orientation must stay strictly below 1 (within 1e-12), over a
    # 2048-direction coarse grid.
    a, b = world
    coarse = so3.build_view_grid(2048, 1)
    t0 = time.monotonic()
    table = ambiguity.rank_object(
        a, [b], [default_codebooks[1]], coarse,
        DEFAULTS["ranking"]["descent_steps"], threads=4,
    )
    elapsed = time.monotonic() - t0
    saturated = {p.r_a for p in table.pairs if p.similarity >= 1.0 - 1e-12}
    hidden = {p.r_a for p in table.pairs if not synthworld.patch_visible(world, p.r_a)}
    diff = len(saturated ^ hidden)
    _report(
        1, "exact ambiguity ground truth", diff == 0 and elapsed < 120.0,
        f"set difference {diff}, |hidden| {len(hidden)}, {elapsed:.1f}s",
    )


def test_criterion_02_half_sphere_saturation(default_codebooks):
    # A patch so small it is hidden from nearly half of all viewing
    # directions: the saturated fraction of the ranking must land at
    # 0.5 +/- 0.05.  Hidden fraction for angular radius r is (1 - sin r)/2,
    # so r = 0.1 sits just inside the band.
    w = DEFAULTS["world"]
    a, b = synthworld.make_ambiguous_pair(
        DEFAULTS["seed"], n_blobs=w["n_blobs"], d=w["descriptor_dim"],
        patch_center=tuple(w["patch_center"]), patch_radius=0.1,
        group_id="pair-halfcap",
    )
    grid = so3.build_view_grid(
        DEFAULTS["codebook"]["n_dirs"], DEFAULTS["codebook"]["n_inplane"]
    )
    cb_b = build_codebook(b, grid)
    coarse = so3.build_view_grid(2048, 1)
    table = ambiguity.rank_object(
        a, [b], [cb_b], coarse, DEFAULTS["ranking"]["descent_steps"], threads=4
    )
    frac = float(np.mean(table.raw_similarity >= 1.0 - 1e-12))
    _report(2, "half-sphere saturation", abs(frac - 0.5) <= 0.05, f"saturated fraction {frac:.3f}")


def _fine_oracle_similarities(obj_target, queries: np.ndarray, n_dirs: int) -> np.ndarray:
    """Brute-force roll-maximized similarity against a dense direction grid."""
    dirs = so3.fibonacci_directions(n_dirs)
    w = np.clip(dirs @ obj_target.positions.T, 0.0, None) ** 2
    s = w @ obj_target.descriptors                       # (n_dirs, d)
    se, so_ = s[:, 0::2], s[:, 1::2]
    qe, qo = queries[:, 0::2], queries[:, 1::2]
    c = se @ qe.T + so_ @ qo.T                           # (n_dirs, n_queries)
    cs = so_ @ qe.T - se @ qo.T
    sims = np.hypot(c, cs)
    sims /= np.linalg.norm(s, axis=1)[:, None]
    sims /= np.linalg.norm(queries, axis=1)[None, :]
    return np.max(sims, axis=0)


def test_criterion_03_descent_monotone_and_near_oracle(world, default_codebooks):
    # Per-orientation similarity never decreases with more descent steps, and
    # at 32 steps a 16x-denser brute-force oracle beats the descent by more
    # than 1e-3 on under 5% of orientations.
    a, b = world
    coarse = so3.build_view_grid(DEFAULTS["ranking"]["coarse_dirs"], 1)
    by_steps = {}
    for steps in (0, 8, 32):
        t = ambiguity.rank_object(a, [b], [default_codebooks[1]], coarse, steps, threads=4)
        by_steps[steps] = {p.r_a: p.similarity for p in t.pairs}
    rotations = list(by_steps[0])
    monotone = all(
        by_steps[0][r] <= by_steps[8][r] + 1e-12
        and by_steps[8][r] <= by_steps[32][r] + 1e-12
        for r in rotations
    )
    queries = synthworld.render_embeddings(a, coarse.base)
    oracle = _fine_oracle_similarities(b, queries, 16 * DEFAULTS["ranking"]["coarse_dirs"])
    descent = np.array([by_steps[32][coarse.entry(i)] for i in range(len(coarse))])
    exceed_frac = float(np.mean(oracle - descent > 1e-3))
    _report(
        3, "descent monotonicity and oracle gap",
        monotone and exceed_frac < 0.05,
        f"monotone {monotone}, oracle beats descent on {exceed_frac:.3f} of views",
    )


def test_criterion_04_threshold_split_classifier_trend(world, default_tables):
    # Excluding high-ambiguity views from training must pay off: at the
    # default noise level, training at threshold 0.5 beats training at 1.0
    # by >= 0.05 when evaluated below ambiguity 0.5, and within each
    # threshold the eval-cap series is ordered (lower cap => higher
    # accuracy) inside a 0.05 band.
    a, b = world
    sw = DEFAULTS["sweep"]
    sigma = classify.default_noise_sigma(a, sw["noise_factor"])
    result = classify.threshold_sweep(
        [a, b],
        [default_tables["A"], default_tables["B"]],
        thresholds=sw["thresholds"],
        caps=sw["caps"],
        trials=sw["trials"],
        eval_samples=sw["eval_samples"],
        samples_per_rotation=sw["samples_per_rotation"],
        noise_sigma=sigma,
        seed=DEFAULTS["seed"],
        train_rotations_per_class=sw["train_rotations_per_class"],
    )
    acc = {(r.train_threshold, r.eval_ambiguity_cap): r.accuracy
           for r in result.rows if r.status == "ok"}
    gap = acc[(0.5, 0.5)] - acc[(1.0, 0.5)]
    ordered = True
    for threshold in sw["thresholds"]:
        series = [acc[(threshold, cap)] for cap in sw["caps"] if (threshold, cap) in acc]
        for lo, hi in zip(series, series[1:]):
            if hi > lo + 0.05:
                ordered = False
    _report(
        4, "threshold-split classifier trend",
        gap >= 0.05 and ordered,
        f"gap {gap:.3f}, cap series ordered {ordered}",
    )


@pytest.fixture(scope="module")
def default_classifier(world, default_tables):
    a, b = world
    splits = [
        ambiguity.split_by_threshold(default_tables[o.class_id],
                                     DEFAULTS["policy"]["train_threshold"])
        for o in (a, b)
    ]
    sigma = classify.default_noise_sigma(a, DEFAULTS["policy"]["noise_factor"])
    return classify.train([a, b], splits, noise_sigma=sigma, seed=DEFAULTS["seed"])


def test_criterion_05_active_policy_beats_random(
    world, default_codebooks, default_tables, default_classifier
):
    a, b = world
    p = DEFAULTS["policy"]
    sigma = classify.default_noise_sigma(a, p["noise_factor"])
    reachable = policy.build_trajectory_reachable(policy.TrajectoryGrid.evenly_spaced(5, 32))
    kw = dict(
        n_episodes=200, objects=[a, b], codebooks=default_codebooks,
        tables=default_tables, classifier=default_classifier, reachable=reachable,
        ambiguity_threshold=p["threshold"], max_moves=p["max_moves"],
        noise_sigma=sigma, seed=DEFAULTS["seed"],
    )
    nb = policy.run_experiment(policy="next_best", **kw)
    rd = policy.run_experiment(policy="random", **kw)
    dominates = all(
        nb.success_by_budget[k] >= rd.success_by_budget[k] for k in (1, 2, 3)
    )
    margin1 = nb.success_by_budget[1] - rd.success_by_budget[1]
    _report(
        5, "active policy beats random",
        dominates and margin1 >= 0.1,
        "nb " + str({k: round(v, 3) for k, v in nb.success_by_budget.items()})
        + " rd " + str({k: round(v, 3) for k, v in rd.success_by_budget.items()}),
    )


def test_criterion_06_online_analog_accuracy(
    world, default_codebooks, default_tables, default_classifier
):
    a, b = world
    p = DEFAULTS["policy"]
    sigma = classify.default_noise_sigma(a, p["noise_factor"])
    reachable = policy.build_sphere_reachable(p["reachable"]["sphere_dirs"])
    t0 = time.monotonic()
    result = policy.run_experiment(
        n_episodes=p["episodes"], policy="next_best", objects=[a, b],
        codebooks=default_codebooks, tables=default_tables,
        classifier=default_classifier, reachable=reachable,
        ambiguity_threshold=p["threshold"], max_moves=p["max_moves"],
        noise_sigma=sigma, seed=DEFAULTS["seed"],
    )
    elapsed = time.monotonic() - t0
    _report(
        6, "online-analog accuracy",
        result.accuracy >= 0.90 and elapsed < 300.0,
        f"accuracy {result.accuracy:.3f} over {p['episodes']} episodes, {elapsed:.1f}s",
    )


def test_criterion_07_pose_estimation_sanity(world, default_codebooks):
    # Noise-free off-grid queries: the codebook estimate must land within
    # 1.5x the grid's covering radius (the largest nearest-grid-rotation
    # distance among the queries, found by brute force) in >= 95% of trials.
    a, _ = world
    cb = default_codebooks[0]
    n = cb.grid.n_inplane
    grid_q = np.stack([so3.rolled(cb.grid.base, 2.0 * math.pi * k / n) for k in range(n)],
                      axis=1).reshape(-1, 4)
    rng = np.random.default_rng(DEFAULTS["seed"])
    truths = [so3.random_rotation(rng) for _ in range(200)]
    nn_dist = np.empty(len(truths))
    est_dist = np.empty(len(truths))
    for i, r in enumerate(truths):
        dots = np.clip(np.abs(grid_q @ r.q), -1.0, 1.0)
        nn_dist[i] = 2.0 * math.acos(float(np.max(dots)))
        best, _ = cb.best(synthworld.render_embedding(a, r))
        est_dist[i] = so3.geodesic_distance(cb.grid.entry(best), r)
    covering = float(np.max(nn_dist))
    frac = float(np.mean(est_dist <= 1.5 * covering))
    _report(
        7, "pose-estimation sanity",
        frac >= 0.95,
        f"{frac:.3f} within 1.5x covering radius {covering:.3f} rad",
    )


def _run_cli(manifest_path, out, command, *extra):
    code = cli.main([command, "--manifest", str(manifest_path), "--out", str(out), *extra])
    assert code == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir() if p.is_file()
    }


def test_criterion_08_cli_determinism(tmp_path_factory):
    # Every command rerun from its materialized manifest is byte-identical,
    # including under different --threads.
    base = tmp_path_factory.mktemp("cli-determinism")
    small = {
        "seed": 0,
        "world": {"n_blobs": 128, "descriptor_dim": 16},
        "codebook": {"n_dirs": 256, "n_inplane": 12},
        "ranking": {"coarse_dirs": 64, "descent_steps": 8},
        "sweep": {"thresholds": [0.5, 1.0], "caps": [0.5, 1.0],
                  "trials": 3, "eval_samples": 30},
        "policy": {"episodes": 10,
                   "reachable": {"kind": "trajectory", "circles": 3, "steps": 8}},
        "compare": {"sigmas": [0.0, 0.5]},
    }
    mpath = base / "manifest.json"
    mpath.write_text(json.dumps(small))
    ok = True
    details = []
    for command in ("rank", "sweep", "simulate", "compare"):
        first = _run_cli(mpath, base / command, command)
        rerun = _run_cli(
            (base / command) / "manifest.resolved.json", base / f"{command}-rerun", command
        )
        threaded = _run_cli(mpath, base / f"{command}-t4", command, "--threads", "4")
        if not (first == rerun == threaded):
            ok = False
            details.append(command)
    _report(
        8, "CLI determinism",
        ok,
        "all commands byte-identical" if ok else f"mismatch in {details}",
    )


def test_criterion_09_invariant_suites(world, default_tables, default_classifier):
    # Spot re-checks of the module invariants at full default resolution;
    # the per-module property suites run in the unit tests.
    a, b = world
    t = default_tables["A"]
    checks = {}
    checks["normalization bounds"] = bool(
        np.all(t.ambiguity >= 0.0) and np.all(t.ambiguity <= 1.0)
    )
    z = synthworld.render_embedding(a, so3.look_at([0.2, -0.9, 0.4]))
    checks["argmax scale invariance"] = (
        classify.predict(default_classifier, z)
        == classify.predict(default_classifier, 50.0 * z)
    )
    reachable = policy.build_trajectory_reachable(policy.TrajectoryGrid.evenly_spaced(3, 8))
    rng = np.random.default_rng(1)
    hyp_rot = so3.random_rotation(rng)
    nbv = policy.next_best_view(("A",), hyp_rot.q[None, :], default_tables, reachable)
    checks["reachable membership"] = nbv in range(len(reachable))
    ra, rb = so3.random_rotation(rng), so3.random_rotation(rng)
    checks["metric symmetry"] = blob_match_similarity(a, ra, b, rb) == blob_match_similarity(
        b, rb, a, ra
    )
    ok = all(checks.values())
    _report(
        9, "invariant suites",
        ok,
        ", ".join(f"{k}={v}" for k, v in checks.items()),
    )


def test_criterion_10_baseline_correlations_reported_only(world, default_tables):
    # The harness reports how the baseline metrics correlate with the primary
    # similarity but never asserts a particular outcome; here we only check
    # the report exists and is well-formed.
    a, b = world
    report = metric_comparison(default_tables["A"], a, {"B": b})
    ok = all(
        -1.0 <= report.spearman[name] <= 1.0 and -1.0 <= report.pearson[name] <= 1.0
        for name in report.metric_names
    )
    detail = ", ".join(
        f"{name} spearman={report.spearman[name]:.3f}" for name in report.metric_names
    )
    _report(10, "baseline correlations reported (not asserted)", ok, detail)
