"""Output checks for the viewrank benchmark, computed apart from viewrank.

Nothing here imports viewrank: view directions, rolls, renders, the dense
direction oracle, min-max normalization, split sizes and episode bookkeeping
are recomputed from the objects' blob arrays and the documented conventions
(README "Conventions").  Program objects are only read.

Every check returns a ``Failures`` mapping from an operation index to the
first reason it failed; an empty mapping means every operation passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

SATURATED = 1.0 - 1e-12      # similarity counted as an exact twin match
SIM_TOL = 1e-9               # re-rendered similarity agreement
AMB_TOL = 1e-12              # recomputed min-max ambiguity agreement
GRAZING_MARGIN = 0.02        # a differing blob facing the camera by more must show
ORACLE_DENSITY = 16          # oracle directions per coarse direction
ORACLE_GAP = 1e-3
ORACLE_MAX_FRACTION = 0.05
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class Failures(dict):
    """Operation index -> reason; the first reason recorded for an index wins."""

    def add(self, index: int, reason: str) -> None:
        self.setdefault(int(index), reason)

    def add_all(self, indices, reason: str) -> None:
        for i in indices:
            self.add(i, reason)


# ---------------------------------------------------------------------------
# Analytic renderer (see viewrank.synthworld's module docstring for the model)


def quats_of(rotations) -> np.ndarray:
    return np.array([r.q for r in rotations], dtype=float).reshape(-1, 4)


def view_dirs(quats: np.ndarray) -> np.ndarray:
    """Third column of each quaternion's rotation matrix: where +z points."""
    w, x, y, z = np.asarray(quats, dtype=float).reshape(-1, 4).T
    return np.stack([2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)], axis=1)


def rolls(quats: np.ndarray) -> np.ndarray:
    """In-plane roll: angle about +z of the rotation left after undoing the
    geodesic alignment of +z with the view direction."""
    q = np.asarray(quats, dtype=float).reshape(-1, 4)
    v = view_dirs(q)
    base = np.stack([1.0 + v[:, 2], -v[:, 1], v[:, 0], np.zeros(len(v))], axis=1)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    bw, bx, by, bz = base.T
    w, x, y, z = q.T
    # conj(base) * q: only the w and z components are needed.
    rel_w = bw * w + bx * x + by * y + bz * z
    rel_z = bw * z - bx * y + by * x - bz * w
    return 2.0 * np.arctan2(rel_z, rel_w)


def blob_sums(obj, dirs: np.ndarray) -> np.ndarray:
    """Visibility-weighted descriptor sums, ``max(0, v . p)^2`` weights."""
    t = np.asarray(dirs, dtype=float) @ np.asarray(obj.positions, dtype=float).T
    return (np.maximum(t, 0.0) ** 2) @ np.asarray(obj.descriptors, dtype=float)


def render(obj, quats: np.ndarray) -> np.ndarray:
    """Noise-free embeddings: weighted sums with each component pair rolled."""
    q = np.asarray(quats, dtype=float).reshape(-1, 4)
    s = blob_sums(obj, view_dirs(q))
    ang = rolls(q)[:, None]
    c, sn = np.cos(ang), np.sin(ang)
    out = np.empty_like(s)
    out[:, 0::2] = c * s[:, 0::2] - sn * s[:, 1::2]
    out[:, 1::2] = sn * s[:, 0::2] + c * s[:, 1::2]
    return out


def rollmax_cossim(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity maximized over a shared in-plane roll."""
    ae, ao = za[..., 0::2], za[..., 1::2]
    be, bo = zb[..., 0::2], zb[..., 1::2]
    c = np.sum(ae * be + ao * bo, axis=-1)
    s = np.sum(ao * be - ae * bo, axis=-1)
    return np.hypot(c, s) / (np.linalg.norm(za, axis=-1) * np.linalg.norm(zb, axis=-1))


def fibonacci_dirs(n: int) -> np.ndarray:
    k = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / n
    phi = np.mod(k * GOLDEN_ANGLE, 2.0 * math.pi)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def differing_visibility(a, b, dirs: np.ndarray) -> np.ndarray:
    """Largest ``v . p`` over the blobs whose descriptors differ (-inf if none)."""
    diff = np.any(np.asarray(a.descriptors) != np.asarray(b.descriptors), axis=1)
    if not np.any(diff):
        return np.full(len(dirs), -np.inf)
    return np.max(np.asarray(dirs) @ np.asarray(a.positions)[diff].T, axis=1)


def oracle_similarities(target, queries: np.ndarray, n_dirs: int, chunk: int = 512) -> np.ndarray:
    """Brute-force roll-maximized similarity of each query against a dense
    Fibonacci direction grid of ``target``."""
    dirs = fibonacci_dirs(n_dirs)
    qe, qo = queries[:, 0::2], queries[:, 1::2]
    qn = np.linalg.norm(queries, axis=1)
    best = np.full(len(queries), -np.inf)
    for lo in range(0, n_dirs, chunk):
        s = blob_sums(target, dirs[lo:lo + chunk])
        se, so = s[:, 0::2], s[:, 1::2]
        c = se @ qe.T + so @ qo.T
        cs = so @ qe.T - se @ qo.T
        sims = np.hypot(c, cs) / np.linalg.norm(s, axis=1)[:, None] / qn[None, :]
        best = np.maximum(best, np.max(sims, axis=0))
    return best


def minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(values)), float(np.max(values))
    return np.zeros_like(values) if hi == lo else (values - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# Ranking: one operation per ranked orientation (table row)


def check_table(table, obj, other, coarse_dirs: int, saturated_band=None) -> tuple:
    """Checks an ambiguity table of ``obj`` ranked against ``other``.

    ``saturated_band = (target, width)`` also requires the saturated fraction
    of rows to lie in ``target +/- width``.  Returns ``(failures, saturated,
    hidden)`` where the counts are taken from the table's rows and from the
    recomputed patch visibility.
    """
    fails = Failures()
    n = len(table.pairs)
    rows = range(n)
    if n != coarse_dirs:
        fails.add_all(rows, f"{n} rows for {coarse_dirs} coarse views")
        return fails, 0, 0
    sims = np.array([p.similarity for p in table.pairs], dtype=float)
    amb = np.asarray(table.ambiguity, dtype=float)
    qa = quats_of(p.r_a for p in table.pairs)
    qb = quats_of(p.r_b for p in table.pairs)
    dirs_a = view_dirs(qa)

    # Each row is a distinct coarse-grid view at roll 0.
    grid = fibonacci_dirs(coarse_dirs)
    nearest = np.argmax(dirs_a @ grid.T, axis=1)
    off_grid = np.linalg.norm(dirs_a - grid[nearest], axis=1) > 1e-9
    rolled = np.abs(np.angle(np.exp(1j * rolls(qa)))) > 1e-9
    counts = np.bincount(nearest, minlength=coarse_dirs)
    for i in np.flatnonzero(off_grid | rolled):
        fails.add(i, "r_a is not a coarse-grid view")
    for i in np.flatnonzero(counts[nearest] > 1):
        fails.add(i, "coarse view ranked twice")

    for i, p in enumerate(table.pairs):
        if p.matched_class != other.class_id:
            fails.add(i, f"matched class {p.matched_class!r}")
    bad = ~np.isfinite(sims) | (sims < -1.0) | (sims > 1.0)
    fails.add_all(np.flatnonzero(bad), "similarity outside [-1, 1]")
    fails.add_all(np.flatnonzero(np.diff(sims) > 0.0) + 1, "rows not sorted by similarity")

    za = render(obj, qa)
    expect = rollmax_cossim(za, render(other, qb))
    fails.add_all(np.flatnonzero(~(np.abs(expect - sims) <= SIM_TOL)),
                  "similarity differs from the re-rendered pair")

    facing = differing_visibility(obj, other, dirs_a)
    hidden = facing <= 0.0
    fails.add_all(np.flatnonzero(hidden & ~(sims >= SATURATED)), "hidden view not saturated")
    fails.add_all(np.flatnonzero((facing > GRAZING_MARGIN) & (sims >= SATURATED)),
                  "visible patch yet saturated")

    fails.add_all(np.flatnonzero(~(np.abs(amb - minmax(sims)) <= AMB_TOL)),
                  "ambiguity is not the min-max map of the similarities")

    oracle = oracle_similarities(other, za, ORACLE_DENSITY * coarse_dirs)
    beaten = oracle - sims > ORACLE_GAP
    if np.mean(beaten) >= ORACLE_MAX_FRACTION:
        fails.add_all(rows, f"oracle beats descent on {np.mean(beaten):.3f} of views")
    saturated = int(np.sum(sims >= SATURATED))
    if saturated_band is not None:
        target, width = saturated_band
        if not abs(saturated / n - target) <= width:
            fails.add_all(rows, f"saturated fraction {saturated / n:.3f} outside "
                                f"{target} +/- {width}")
    return fails, saturated, int(np.sum(hidden))


# ---------------------------------------------------------------------------
# Threshold sweep: one operation per cell


GAP_CAP, GAP_THRESHOLD, GAP_BASELINE = 0.5, 0.5, 1.0


def sweep_gap(result) -> float:
    """Accuracy at cap 0.5 of training below ambiguity 0.5, minus training on all views."""
    acc = {(r.train_threshold, r.eval_ambiguity_cap): r.accuracy for r in result.rows}
    return acc[(GAP_THRESHOLD, GAP_CAP)] - acc[(GAP_BASELINE, GAP_CAP)]


def check_sweep(result, tables, thresholds, caps, trials: int, eval_samples: int,
                min_gap: float | None = None) -> Failures:
    """Cell order, status and ``n_samples`` from independently counted splits;
    with ``min_gap``, also the gap ``sweep_gap`` measures."""
    fails = Failures()
    rows = list(result.rows)
    cells = [(float(t), float(c)) for t in thresholds for c in caps]
    if len(rows) != len(cells):
        fails.add_all(range(max(len(rows), len(cells))), f"{len(rows)} cells for {len(cells)}")
        return fails
    ambs = [np.asarray(t.ambiguity, dtype=float) for t in tables]
    for i, (row, (t, c)) in enumerate(zip(rows, cells)):
        if (row.train_threshold, row.eval_ambiguity_cap) != (t, c):
            fails.add(i, "cell out of order")
            continue
        trainable = all(np.sum(a < t) > 0 for a in ambs)
        evaluated = sum(int(np.sum(a < c) > 0) for a in ambs)
        if not trainable:
            if row.status != "empty_train" or row.n_samples != 0 or not math.isnan(row.accuracy):
                fails.add(i, "untrainable cell not reported as empty_train")
            continue
        if row.status != "ok":
            fails.add(i, f"status {row.status!r} on a trainable cell")
        if row.n_samples != eval_samples * evaluated * trials:
            fails.add(i, f"n_samples {row.n_samples} != {eval_samples * evaluated * trials}")
        if not 0.0 <= row.accuracy <= 1.0:
            fails.add(i, f"accuracy {row.accuracy} outside [0, 1]")
    if min_gap is not None:
        gap = sweep_gap(result)
        if not gap >= min_gap:
            pair = (cells.index((GAP_THRESHOLD, GAP_CAP)), cells.index((GAP_BASELINE, GAP_CAP)))
            fails.add_all(pair, f"threshold gap {gap:.3f} < {min_gap}")
    return fails


# ---------------------------------------------------------------------------
# Baseline comparison: one operation per pair row, then one per noise level


def _spearman(x, y) -> float:
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0
    return float(np.corrcoef(stats.rankdata(x), stats.rankdata(y))[0, 1])


def check_comparison(report, table, obj, others_by_class) -> Failures:
    fails = Failures()
    n = len(table.pairs)
    sims = np.array([p.similarity for p in table.pairs], dtype=float)
    qa = quats_of(p.r_a for p in table.pairs)
    qb = quats_of(p.r_b for p in table.pairs)
    other = [others_by_class[p.matched_class] for p in table.pairs]
    if any(len(v) != n for v in report.values.values()):
        fails.add_all(range(n), "metric length differs from the table")
        return fails
    za = render(obj, qa)
    zb = np.array([render(o, q)[0] for o, q in zip(other, qb)])
    va = (view_dirs(qa) @ np.asarray(obj.positions).T) > 0.0
    for name, values in report.values.items():
        values = np.asarray(values, dtype=float)
        if name == "primary":
            expect = sims
            tol = 0.0
        elif name == "mse":
            expect = -np.mean((za - zb) ** 2, axis=1)
            tol = SIM_TOL * np.maximum(1.0, np.abs(expect))
        else:
            expect = np.empty(n)
            for i, (o, q) in enumerate(zip(other, qb)):
                vb = (view_dirs(q)[0] @ np.asarray(o.positions).T) > 0.0
                close = np.linalg.norm(np.asarray(obj.descriptors) - np.asarray(o.descriptors),
                                       axis=1) < 1e-6
                union = va[i] | vb
                expect[i] = 1.0 if not union.any() else np.sum(va[i] & vb & close) / np.sum(union)
            tol = 0.0
        fails.add_all(np.flatnonzero(~(np.abs(values - expect) <= tol)), f"{name} value differs")
        want = _spearman(values, sims)
        if not abs(report.spearman[name] - want) <= SIM_TOL:
            fails.add_all(range(n), f"{name} spearman {report.spearman[name]} != {want}")
    return fails


def check_robustness(rows, sigmas) -> Failures:
    fails = Failures()
    if [s for s, _ in rows] != [float(s) for s in sigmas]:
        fails.add_all(range(max(len(rows), len(sigmas))), "noise levels differ from the inputs")
        return fails
    for i, (sigma, corr) in enumerate(rows):
        if not -1.0 <= corr <= 1.0:
            fails.add(i, f"correlation {corr} outside [-1, 1]")
        elif sigma == 0.0 and corr != 1.0:
            fails.add(i, "noise-free ranking does not reproduce itself")
    return fails


# ---------------------------------------------------------------------------
# Closed-loop episodes: one operation per episode, next_best first


def trajectory_dirs(circles: int, steps: int) -> np.ndarray:
    theta = (np.arange(circles) + 1) * math.pi / (circles + 1)
    phi = 2.0 * math.pi * np.arange(steps) / steps
    t, p = np.meshgrid(theta, phi, indexing="ij")
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1).reshape(-1, 3)


def success_by_budget(episodes, max_moves: int) -> dict:
    # Clamped so that a malformed episode, rejected on its own, cannot raise here.
    return {k: float(np.mean([e.predictions[min(e.moves_used, k, len(e.predictions) - 1)]
                              == e.true_class
                              for e in episodes]))
            for k in range(max_moves + 1)}


def check_episode(e, reachable: np.ndarray, threshold: float, max_moves: int,
                  classes) -> str | None:
    """First broken property of one episode, or None."""
    n = len(e.visited)
    if not (n >= 1 and len(e.ambiguities) == n and len(e.predictions) == n):
        return "trace lengths disagree"
    if e.moves_used != n - 1 or not 0 <= e.moves_used <= max_moves:
        return f"moves_used {e.moves_used} for {n} views"
    q = quats_of(e.visited)
    if not np.array_equal(q[0], e.start.q):
        return "first view is not the start"
    d = view_dirs(q)
    if not np.all(np.min(np.linalg.norm(d[:, None, :] - reachable[None], axis=2), axis=1) <= 1e-9):
        return "visited view is not reachable"
    if not np.all(np.abs(np.angle(np.exp(1j * rolls(q)))) <= 1e-9):
        return "visited view is rolled"
    if np.any(np.sum(q[1:] * q[:-1], axis=1) >= 1.0 - 1e-12):
        return "move to the same view"
    amb = np.asarray(e.ambiguities, dtype=float)
    if not np.all((amb >= 0.0) & (amb <= 1.0)):
        return "ambiguity outside [0, 1]"
    if np.any(amb[:-1] < threshold):
        return "episode continued below the threshold"
    below = amb[-1] < threshold
    if (e.terminated_reason == "below_threshold") != below:
        return f"reason {e.terminated_reason} with final ambiguity {amb[-1]:.4f}"
    if e.terminated_reason == "move_budget" and e.moves_used != max_moves:
        return "move_budget before the budget was used"
    if e.terminated_reason not in ("below_threshold", "local_optimum", "move_budget"):
        return f"unknown reason {e.terminated_reason!r}"
    if set(e.predictions) - set(classes) or e.true_class not in classes:
        return "unknown class"
    if e.predicted_class != e.predictions[-1] or e.correct != (e.predicted_class == e.true_class):
        return "final prediction bookkeeping"
    return None


def check_episodes(results: dict, reachable: np.ndarray, threshold: float, max_moves: int,
                   classes) -> Failures:
    """``results`` maps policy -> ExperimentResult over the same samples.

    Operations are numbered policy by policy, in the mapping's order.
    """
    fails = Failures()
    policies = list(results)
    n = len(results[policies[0]].episodes)
    offset = {p: k * n for k, p in enumerate(policies)}
    if any(len(r.episodes) != n for r in results.values()):
        fails.add_all(range(n * len(policies)), "policies ran different episode counts")
        return fails
    for p, r in results.items():
        for i, e in enumerate(r.episodes):
            reason = check_episode(e, reachable, threshold, max_moves, classes)
            if reason:
                fails.add(offset[p] + i, reason)
        if r.success_by_budget != success_by_budget(r.episodes, max_moves):
            fails.add_all(range(offset[p], offset[p] + n), f"{p} success_by_budget differs")
    first, *rest = policies
    for p in rest:
        for i, (x, y) in enumerate(zip(results[first].episodes, results[p].episodes)):
            if (x.true_class, x.predictions[:1], x.ambiguities[:1]) != \
                    (y.true_class, y.predictions[:1], y.ambiguities[:1]) \
                    or not np.array_equal(x.start.q, y.start.q):
                fails.add_all((offset[first] + i, offset[p] + i), "episodes not paired")
    return fails


def policy_margins(results: dict, max_moves: int) -> dict:
    """next_best minus random success rate per move budget."""
    s_nb = success_by_budget(results["next_best"].episodes, max_moves)
    s_rd = success_by_budget(results["random"].episodes, max_moves)
    return {k: s_nb[k] - s_rd[k] for k in range(max_moves + 1)}


def check_dominance(results: dict, max_moves: int, min_margin: float = 0.1) -> Failures:
    """next_best is at least as successful as random at budgets 1..max_moves,
    and better by ``min_margin`` at budget 1; otherwise every episode fails."""
    margins = policy_margins(results, max_moves)
    fails = Failures()
    if not (all(margins[k] >= 0.0 for k in range(1, max_moves + 1))
            and margins[1] >= min_margin):
        n = sum(len(r.episodes) for r in results.values())
        fails.add_all(range(n), f"next_best does not dominate random: margins {margins}")
    return fails
