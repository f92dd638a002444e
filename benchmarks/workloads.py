"""The three benchmark workloads, driven through viewrank's public functions.

Every workload resolves its manifest from the benchmark seed with
``viewrank.manifest.resolve`` and sets up as every ``viewrank`` command does:
the twin world, the codebook view grid and both codebooks.  It then runs
whole rounds of the same operations, in the order and with the arguments of
the command it stands for, and checks each round's outputs with ``checks``.
All three are closed loops with one client and ``threads=1`` unless asked
otherwise: views and episodes are processed one after another.

Operations: one ranked orientation, one sweep cell, one comparison row (pair
or noise level) or one episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import checks
from viewrank import (ambiguity, baselines, classify, codebook, manifest, policy, seeding, so3,
                      synthworld)

# Paired samples per round of episodes-default (each runs under both
# policies).  230 per policy, as in `viewrank simulate`, would take about
# 70 s per round on a 2-core machine; 60 keeps a run near 40 s.
EPISODES_PER_ROUND = 60

# The threshold-split gap (acceptance criterion 04) and next_best dominating
# random (criterion 05) are statistical properties of one world, not
# invariants: over seeds 1-25 the gap fell to 0.053 (seed 25) and, at 60
# pairs, the budget-1 margin to 0.0 (seed 24).  They are checked on these
# seeds, where they were verified, and reported on every seed.
REFERENCE_SEEDS = (0, 1)

REASONS = ("below_threshold", "local_optimum", "move_budget")


@dataclass
class Run:
    """Operations attempted and failed in one benchmark run, with the
    counters taken from outputs."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    episode_views: list = field(default_factory=list)
    ranked_views: int = 0

    def record(self, n_ops: int, fails) -> None:
        self.attempted += n_ops
        self.failed += len(fails)
        for reason in fails.values():
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)


@dataclass
class State:
    objects: list
    codebooks: list
    prepared: dict = field(default_factory=dict)


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def build_world(m: dict):
    w = m["world"]
    world_seed = int(seeding.seed_sequence(m["seed"], "world").generate_state(1)[0])
    return synthworld.make_ambiguous_pair(
        world_seed, n_blobs=w["n_blobs"], d=w["descriptor_dim"],
        patch_center=w["patch_center"], patch_radius=w["patch_radius"], group_id=w["group_id"],
    )


def rank_tables(m: dict, objects, codebooks, threads: int) -> dict:
    """Every object ranked against the rest of its group, as `viewrank rank` does."""
    coarse = so3.build_view_grid(m["ranking"]["coarse_dirs"], 1)
    tables = {}
    for i, obj in enumerate(objects):
        others = [o for j, o in enumerate(objects) if j != i]
        cbs = [cb for j, cb in enumerate(codebooks) if j != i]
        tables[obj.class_id] = ambiguity.rank_object(
            obj, others, cbs, coarse, m["ranking"]["descent_steps"], threads=threads)
    return tables


def check_tables(m: dict, objects, tables: dict, run: Run, saturated_band=None) -> None:
    n = m["ranking"]["coarse_dirs"]
    for obj in objects:
        if obj.class_id not in tables:
            continue
        other = next(o for o in objects if o is not obj)
        fails, saturated, hidden = checks.check_table(tables[obj.class_id], obj, other, n,
                                                      saturated_band)
        run.record(n, fails)
        run.ranked_views += n
        run.count("ambiguity.saturated_views", saturated)
        run.count("ambiguity.hidden_views", hidden)


class Workload:
    name = ""
    overrides: dict = {}
    # Set-ups per untraced run; setup_s is their median.  The default
    # workloads set up once: a second 10 s set-up in each of the benchmark's
    # many runs would not fit their time limit.
    setups = 1
    views = "ranking"   # what a view_ms sample times: a ranked view or an episode's view

    def manifest(self, seed: int) -> dict:
        return manifest.resolve(_merge({"seed": int(seed)}, self.overrides))

    def setup(self, m: dict) -> State:
        objects = list(build_world(m))
        grid = so3.build_view_grid(m["codebook"]["n_dirs"], m["codebook"]["n_inplane"])
        return State(objects, [codebook.build_codebook(o, grid) for o in objects])

    def prepare_ops(self, m: dict) -> int:
        return 0

    def prepare(self, m: dict, st: State, threads: int) -> None:
        """Work done once per run before the rounds (and checked there)."""

    def check_prepared(self, m: dict, st: State, run: Run) -> None:
        pass

    def round_ops(self, m: dict) -> int:
        raise NotImplementedError

    def round(self, m: dict, st: State, threads: int) -> dict:
        raise NotImplementedError

    def check(self, m: dict, st: State, out: dict, run: Run) -> None:
        raise NotImplementedError


class OfflineDefault(Workload):
    name = "offline-default"

    def round_ops(self, m):
        n = m["ranking"]["coarse_dirs"]
        return (2 * n + len(m["sweep"]["thresholds"]) * len(m["sweep"]["caps"])
                + n + len(m["compare"]["sigmas"]))

    def round(self, m, st, threads):
        a, b = st.objects
        tables = rank_tables(m, st.objects, st.codebooks, threads)
        sw = m["sweep"]
        sweep = classify.threshold_sweep(
            [a, b], [tables["A"], tables["B"]],
            thresholds=sw["thresholds"], caps=sw["caps"], trials=sw["trials"],
            eval_samples=sw["eval_samples"], samples_per_rotation=sw["samples_per_rotation"],
            noise_sigma=classify.default_noise_sigma(a, sw["noise_factor"]), seed=m["seed"],
            train_rotations_per_class=sw["train_rotations_per_class"],
        )
        report = baselines.metric_comparison(tables["A"], a, {"B": b}, tuple(m["compare"]["metrics"]))
        sigmas = [classify.default_noise_sigma(a, s) for s in m["compare"]["sigmas"]]
        robust = baselines.noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas, seed=m["seed"])
        return {"tables": tables, "sweep": sweep, "report": report, "sigmas": sigmas,
                "robust": robust}

    def check(self, m, st, out, run):
        a, b = st.objects
        sw = m["sweep"]
        tables = out["tables"]
        check_tables(m, st.objects, tables, run)
        run.record(len(sw["thresholds"]) * len(sw["caps"]), checks.check_sweep(
            out["sweep"], [tables["A"], tables["B"]], sw["thresholds"], sw["caps"],
            sw["trials"], sw["eval_samples"],
            min_gap=0.05 if m["seed"] in REFERENCE_SEEDS else None))
        run.notes["sweep_gap"] = checks.sweep_gap(out["sweep"])
        run.record(m["ranking"]["coarse_dirs"],
                   checks.check_comparison(out["report"], tables["A"], a, {"B": b}))
        run.record(len(out["sigmas"]), checks.check_robustness(out["robust"], out["sigmas"]))


class EpisodesDefault(Workload):
    name = "episodes-default"
    views = "episodes"

    def prepare_ops(self, m):
        return 2 * m["ranking"]["coarse_dirs"]

    def prepare(self, m, st, threads):
        a, b = st.objects
        p = m["policy"]
        tables = rank_tables(m, st.objects, st.codebooks, threads)
        sigma = classify.default_noise_sigma(a, p["noise_factor"])
        splits = [ambiguity.split_by_threshold(tables[o.class_id], p["train_threshold"])
                  for o in (a, b)]
        r = p["reachable"]
        st.prepared = {
            "tables": tables,
            "sigma": sigma,
            "classifier": classify.train([a, b], splits, noise_sigma=sigma, seed=m["seed"]),
            "reachable": policy.build_trajectory_reachable(
                policy.TrajectoryGrid.evenly_spaced(r["circles"], r["steps"])),
        }

    def check_prepared(self, m, st, run):
        check_tables(m, st.objects, st.prepared["tables"], run)

    def round_ops(self, m):
        return 2 * EPISODES_PER_ROUND

    def round(self, m, st, threads):
        p, pre = m["policy"], st.prepared
        return {pol: policy.run_experiment(
            EPISODES_PER_ROUND, pol, st.objects, st.codebooks, pre["tables"],
            pre["classifier"], pre["reachable"], p["threshold"], p["max_moves"],
            pre["sigma"], m["seed"]) for pol in ("next_best", "random")}

    def check(self, m, st, out, run):
        p = m["policy"]
        r = p["reachable"]
        fails = checks.check_episodes(
            out, checks.trajectory_dirs(r["circles"], r["steps"]), p["threshold"],
            p["max_moves"], [o.class_id for o in st.objects])
        if m["seed"] in REFERENCE_SEEDS:
            for i, reason in checks.check_dominance(out, p["max_moves"]).items():
                fails.add(i, reason)
        run.notes["policy_margins"] = checks.policy_margins(out, p["max_moves"])
        run.record(self.round_ops(m), fails)
        for pol, res in out.items():
            run.episode_views += [len(e.visited) for e in res.episodes]
            run.count(f"policy.views_observed.{pol}", sum(len(e.visited) for e in res.episodes))
            run.count(f"policy.moves.{pol}", sum(e.moves_used for e in res.episodes))
            for reason in REASONS:
                run.count(f"policy.terminated.{reason}.{pol}",
                          sum(e.terminated_reason == reason for e in res.episodes))


class RankHalfcap(Workload):
    name = "rank-halfcap"
    setups = 3
    overrides = {
        "world": {"patch_radius": 0.1, "group_id": "pair-halfcap"},
        "codebook": {"n_dirs": 1024, "n_inplane": 12},
        "ranking": {"coarse_dirs": 2048},
    }

    def round_ops(self, m):
        return m["ranking"]["coarse_dirs"]

    def round(self, m, st, threads):
        a, b = st.objects
        coarse = so3.build_view_grid(m["ranking"]["coarse_dirs"], 1)
        table = ambiguity.rank_object(a, [b], [st.codebooks[1]], coarse,
                                      m["ranking"]["descent_steps"], threads=threads)
        return {"tables": {a.class_id: table}}

    def check(self, m, st, out, run):
        check_tables(m, st.objects, out["tables"], run, saturated_band=(0.5, 0.05))


WORKLOADS = {w.name: w for w in (OfflineDefault(), EpisodesDefault(), RankHalfcap())}
