"""Record a parent-versus-change performance comparison as one JSON file.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_name.json
        [--pairs 10] [--seconds 10] [--seed 0] [--claim WORKLOAD:METRIC:SEED]

``DIR`` is a checkout of each commit.  For every workload of
``BENCHMARK.json``, ``benchmarks/run.py --trace 0`` runs in both checkouts in
alternating pairs (the parent first in odd pairs), and each end-to-end
metric is summarized by its median, quartiles and the pairs the change won
(ties count for neither).  ``--claim`` names a claimed gain, a workload and
end-to-end metric of ``BENCHMARK.json``, and repeats that workload's pairs on
its ``SEED``; without it no pair runs on a second seed and the recorded claim
is ``null``.  The file also records, per checkout, the
wall time and child peak RSS of ``import viewrank.cli`` and whether it loaded
scipy, the wall time and child peak RSS of the four CLI commands at the
default manifest, whether each command's ``hashes.json`` and
``manifest.resolved.json`` are byte-equal between the checkouts, the set-up
time and peak RSS of codebooks at four grid sizes, each in its own process,
and the machine: ``nproc``, CPU model, Python, numpy and its BLAS
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLI_COMMANDS = ("rank", "sweep", "simulate", "compare")
# hashes.json holds the SHA-256 of every other output file.
IDENTITY_FILES = ("hashes.json", "manifest.resolved.json")
CODEBOOK_GRIDS = ((4096, 36), (16384, 36), (16384, 72), (65536, 72))
IMPORT_RUNS = 5

# Whether importing the CLI loads scipy, in a fresh process.
IMPORT_PROBE = """
import json, sys
import viewrank.cli
print(json.dumps("scipy" in sys.modules))
"""

# Set-up time and peak RSS of one codebook, in a fresh process.
CODEBOOK_PROBE = """
import json, resource, sys, time
from viewrank import so3, synthworld
from viewrank.codebook import build_codebook
n_dirs, n_inplane = int(sys.argv[1]), int(sys.argv[2])
a, _ = synthworld.make_ambiguous_pair(0)
t0 = time.perf_counter()
grid = so3.build_view_grid(n_dirs, n_inplane)
t1 = time.perf_counter()
cb = build_codebook(a, grid)
t2 = time.perf_counter()
print(json.dumps({"grid_s": t1 - t0, "codebook_s": t2 - t1,
                  "embeddings_mb": cb.embeddings.nbytes / 2**20,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_child(cmd, cwd, env=None):
    """``(stdout, wall_s, peak_rss_mb)`` of one child process; raises on failure."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {cwd} exited {proc.returncode}")
    return out, wall, usage.ru_maxrss / 1024


def src_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def bench_run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)]
    out, _, _ = run_child(cmd, tree)
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def summarize(parent_runs, change_runs, spec) -> dict:
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r["metrics"].get(name) for r in parent_runs]
        c = [r["metrics"].get(name) for r in change_runs]
        if None in p or None in c:
            continue
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        row = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
               "wins": wins, "pairs": len(p)}
        for side, vals in (("parent", p), ("change", c)):
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            row[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": vals}
        out[name] = row
    return out


def parse_claim(text: str, spec: dict) -> tuple:
    """``(workload, metric, seed)`` of a ``WORKLOAD:METRIC:SEED`` claim whose
    workload and end-to-end metric ``spec`` (``BENCHMARK.json``) declares."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected WORKLOAD:METRIC:SEED, got {text!r}")
    workload, metric, seed = parts
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise ValueError(f"unknown workload {workload!r}")
    if metric not in {m["name"] for m in spec["end_to_end"]}:
        raise ValueError(f"unknown end-to-end metric {metric!r}")
    return workload, metric, int(seed)


def pairs(trees, workload, n, seconds, seed) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench_run(trees[side], workload, seconds, seed))
            print(f"{workload} seed {seed} pair {i + 1}/{n} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    return runs


def cli_figures(tree: Path, outputs: Path) -> dict:
    """Wall time and child peak RSS of each CLI command, writing to
    ``outputs / command``."""
    out = {}
    for cmd in CLI_COMMANDS:
        _, wall, rss = run_child([sys.executable, "-m", "viewrank.cli", cmd,
                                  "--out", str(outputs / cmd)], tree, src_env(tree))
        out[cmd] = {"wall_s": wall, "child_peak_rss_mb": rss}
    return out


def import_figures(tree: Path) -> dict:
    """Wall time and child peak RSS of ``IMPORT_RUNS`` fresh imports of the
    CLI, and whether any of them loaded scipy."""
    runs = [run_child([sys.executable, "-c", IMPORT_PROBE], tree, src_env(tree))
            for _ in range(IMPORT_RUNS)]
    return {"wall_s": [wall for _, wall, _ in runs],
            "child_peak_rss_mb": [rss for _, _, rss in runs],
            "scipy_loaded": any(json.loads(out) for out, _, _ in runs)}


def output_identity(outputs: dict) -> dict:
    """Per command and file of ``IDENTITY_FILES``, whether both checkouts
    wrote the same bytes."""
    return {cmd: {name: (outputs["parent"] / cmd / name).read_bytes()
                  == (outputs["change"] / cmd / name).read_bytes() for name in IDENTITY_FILES}
            for cmd in CLI_COMMANDS}


def codebook_figures(tree: Path) -> dict:
    out = {}
    for n_dirs, n_inplane in CODEBOOK_GRIDS:
        stdout, _, _ = run_child([sys.executable, "-c", CODEBOOK_PROBE, str(n_dirs),
                                  str(n_inplane)], tree, src_env(tree))
        out[f"{n_dirs}x{n_inplane}"] = json.loads(stdout)
    return out


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text()
                .splitlines() if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def commit(tree: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC:SEED")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        claim = None if args.claim is None else parse_claim(args.claim, spec)
    except ValueError as e:
        parser.error(f"--claim: {e}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "machine": machine(),
        "protocol": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "claim": None if claim is None else dict(
                         zip(("workload", "metric", "seed"), claim)),
                     "order": "parent first in odd pairs, change first in even pairs"},
        "workloads": {},
    }
    for w in spec["workloads"]:
        runs = pairs(trees, w["name"], args.pairs, args.seconds, args.seed)
        record["workloads"][w["name"]] = {
            "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "metrics": summarize(runs["parent"], runs["change"], spec["end_to_end"]),
        }
    if claim is not None:
        workload, metric, seed = claim
        runs = pairs(trees, workload, args.pairs, args.seconds, seed)
        record["claim_seed_run"] = summarize(runs["parent"], runs["change"], [
            m for m in spec["end_to_end"] if m["name"] == metric])
    record["cli_import"] = {side: import_figures(t) for side, t in trees.items()}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {side: Path(tmp) / side for side in trees}
        record["cli_default_manifest"] = {side: cli_figures(t, outputs[side])
                                          for side, t in trees.items()}
        record["cli_output_identical"] = output_identity(outputs)
    record["codebook_scaling"] = {side: codebook_figures(t) for side, t in trees.items()}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
