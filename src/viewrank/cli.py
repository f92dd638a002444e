"""Command-line entry point for manifest-driven experiments.

Subcommands::

    viewrank rank      ambiguity tables (JSON) + sorted-pairs CSV per object
    viewrank sweep     classifier accuracy per (train threshold, eval cap)
    viewrank simulate  paired next-best/random episodes + success-vs-budget CSV
    viewrank compare   metric correlations + noise-robustness CSV

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  The whole
manifest is checked before any work; a patch that no blob lands in is refused
while the world is built, and a noise level whose sigma is not finite as soon
as it is built.  A command writes its outputs into a temporary sibling of
``--out`` that is moved into place only on success, so a failed command
changes no file in ``--out`` and creates no ``--out``.
All randomness derives from the manifest seed; reruns are byte-identical.
``--threads`` is accepted (and must be >= 1) but changes neither speed nor
output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import ambiguity, baselines, classify, manifest, policy, seeding, so3
from .codebook import build_codebook
from .synthworld import make_ambiguous_pair

log = logging.getLogger("viewrank")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="viewrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("rank", "build codebooks and write sorted ambiguity tables"),
        ("sweep", "train classifiers across ambiguity thresholds"),
        ("simulate", "run paired active-classification experiments"),
        ("compare", "evaluate baseline similarity metrics"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", type=Path, default=None, help="manifest JSON (defaults apply)")
        p.add_argument("--out", type=Path, default=Path("viewrank-out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; ranking is serial (no effect)")
        p.add_argument("--verbose", action="store_true")
    return parser


def _build_world(m: dict):
    w = m["world"]
    world_seed = int(seeding.seed_sequence(m["seed"], "world").generate_state(1)[0])
    try:
        return make_ambiguous_pair(
            world_seed,
            n_blobs=w["n_blobs"],
            d=w["descriptor_dim"],
            patch_center=w["patch_center"],
            patch_radius=w["patch_radius"],
            group_id=w["group_id"],
        )
    except ValueError as e:
        # The manifest has checked every other argument, so only the patch
        # placement is left to fail: a patch too small for any blob to land in.
        raise manifest.ManifestError(f"world.patch_radius: {e}") from e


def _noise_sigma(obj, factor: float, field: str) -> float:
    """``classify.default_noise_sigma``, refused where it is not finite."""
    sigma = classify.default_noise_sigma(obj, factor)
    if not math.isfinite(sigma):
        raise manifest.ManifestError(f"{field}: {factor!r} makes the noise sigma {sigma}")
    return sigma


def _build_codebooks(m: dict, objects):
    grid = so3.build_view_grid(m["codebook"]["n_dirs"], m["codebook"]["n_inplane"])
    return [build_codebook(obj, grid) for obj in objects]


def _build_tables(m: dict, objects, codebooks):
    coarse = so3.build_view_grid(m["ranking"]["coarse_dirs"], 1)
    steps = m["ranking"]["descent_steps"]
    tables = {}
    for i, obj in enumerate(objects):
        others = [o for j, o in enumerate(objects) if j != i]
        cbs = [cb for j, cb in enumerate(codebooks) if j != i]
        log.info("ranking %s over %d orientations", obj.class_id, len(coarse))
        tables[obj.class_id] = ambiguity.rank_object(obj, others, cbs, coarse, steps)
    return tables


def _write_hashes(out: Path, names) -> None:
    hashes = {}
    for name in sorted(names):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        hashes[name] = digest
    with open(out / "hashes.json", "w", newline="\n") as f:
        json.dump(hashes, f, indent=2, sort_keys=True)
        f.write("\n")


def _cmd_rank(m: dict, out: Path) -> None:
    a, b = _build_world(m)
    codebooks = _build_codebooks(m, [a, b])
    tables = _build_tables(m, [a, b], codebooks)
    written = []
    for cls, table in sorted(tables.items()):
        json_name = f"ambiguity_{cls}.json"
        csv_name = f"sorted_pairs_{cls}.csv"
        table.save(out / json_name)
        ambiguity.export_sorted_pairs(table, out / csv_name)
        written += [json_name, csv_name]
    _write_hashes(out, written)


def _cmd_sweep(m: dict, out: Path) -> None:
    a, b = _build_world(m)
    sigma = _noise_sigma(a, m["sweep"]["noise_factor"], "sweep.noise_factor")
    codebooks = _build_codebooks(m, [a, b])
    tables = _build_tables(m, [a, b], codebooks)
    result = classify.threshold_sweep(
        [a, b],
        [tables["A"], tables["B"]],
        thresholds=m["sweep"]["thresholds"],
        caps=m["sweep"]["caps"],
        trials=m["sweep"]["trials"],
        eval_samples=m["sweep"]["eval_samples"],
        samples_per_rotation=m["sweep"]["samples_per_rotation"],
        noise_sigma=sigma,
        seed=m["seed"],
        train_rotations_per_class=m["sweep"]["train_rotations_per_class"],
    )
    result.to_csv(out / "sweep.csv")
    _write_hashes(out, ["sweep.csv"])


def _make_reachable(m: dict) -> policy.ReachableSet:
    r = m["policy"]["reachable"]
    if r["kind"] == "trajectory":
        grid = policy.TrajectoryGrid.evenly_spaced(r["circles"], r["steps"])
        return policy.build_trajectory_reachable(grid)
    return policy.build_sphere_reachable(r["sphere_dirs"])


def _cmd_simulate(m: dict, out: Path) -> None:
    a, b = _build_world(m)
    sigma = _noise_sigma(a, m["policy"]["noise_factor"], "policy.noise_factor")
    codebooks = _build_codebooks(m, [a, b])
    tables = _build_tables(m, [a, b], codebooks)
    splits = [
        ambiguity.split_by_threshold(tables[obj.class_id], m["policy"]["train_threshold"])
        for obj in (a, b)
    ]
    clf = classify.train([a, b], splits, noise_sigma=sigma, seed=m["seed"])
    reachable = _make_reachable(m)
    results = {}
    for pol in ("next_best", "random"):
        log.info("simulating %d %s episodes", m["policy"]["episodes"], pol)
        results[pol] = policy.run_experiment(
            m["policy"]["episodes"], pol, [a, b], codebooks, tables, clf, reachable,
            m["policy"]["threshold"], m["policy"]["max_moves"], sigma, m["seed"],
        )
        results[pol].save_episodes(out / f"episodes_{pol}.jsonl")
    with open(out / "success_vs_budget.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["budget", "next_best", "random"])
        for k in range(m["policy"]["max_moves"] + 1):
            w.writerow(
                [k,
                 f"{results['next_best'].success_by_budget[k]:.17g}",
                 f"{results['random'].success_by_budget[k]:.17g}"]
            )
    _write_hashes(out, ["episodes_next_best.jsonl", "episodes_random.jsonl",
                        "success_vs_budget.csv"])


def _cmd_compare(m: dict, out: Path) -> None:
    a, b = _build_world(m)
    sigmas = [_noise_sigma(a, s, "compare.sigmas") for s in m["compare"]["sigmas"]]
    coarse = so3.build_view_grid(m["ranking"]["coarse_dirs"], 1)
    table = ambiguity.rank_object(
        a, [b], _build_codebooks(m, [b]), coarse, m["ranking"]["descent_steps"]
    )
    report = baselines.metric_comparison(table, a, {"B": b}, tuple(m["compare"]["metrics"]))
    written = []
    for name in report.metric_names:
        fname = f"metric_{name}.csv"
        report.save_metric_csv(name, out / fname)
        written.append(fname)
    report.save_correlations_csv(out / "metric_correlations.csv")
    written.append("metric_correlations.csv")
    robustness = baselines.noise_robustness_sweep(table, a, {"B": b}, sigmas, seed=m["seed"])
    with open(out / "noise_robustness.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["sigma", "spearman"])
        for sigma, corr in robustness:
            w.writerow([f"{sigma:.17g}", f"{corr:.17g}"])
    written.append("noise_robustness.csv")
    _write_hashes(out, written)


_COMMANDS = {
    "rank": _cmd_rank,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        m = manifest.load(args.manifest) if args.manifest else manifest.resolve(None)
        if args.seed is not None:
            m["seed"] = int(args.seed)
        if args.threads < 1:
            raise manifest.ManifestError("--threads must be >= 1")
    except manifest.ManifestError as e:
        print(f"viewrank: configuration error: {e}", file=sys.stderr)
        return 2
    try:
        out: Path = args.out.resolve()
        if out.exists() and not out.is_dir():
            raise NotADirectoryError(f"--out {args.out} is not a directory")
        out.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
        try:
            _COMMANDS[args.command](m, staging)
            manifest.save(m, staging / "manifest.resolved.json")
            out.mkdir(exist_ok=True)
            for path in sorted(staging.iterdir()):
                os.replace(path, out / path.name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    except manifest.ManifestError as e:
        print(f"viewrank: configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.exception("command failed") if args.verbose else None
        print(f"viewrank: error: {e}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
