"""viewrank benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py [--seed N] [--seconds S]   # every workload, both modes

With ``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Without it, each
workload runs in its own process, untraced and traced, and a table of every
metric, the operations attempted and failed and the tracing overhead is
printed.  Results and traces are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Untraced runs wrap only these: per-call times for rank.views_per_s and view_ms.
UNTRACED = ("ambiguity.rank_object", "ambiguity.most_similar_view", "policy.run_episode")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "rank.views_per_s": "views/s",
    "ops_per_s": "1/s", "view_ms.p50": "ms", "view_ms.p90": "ms",
}
TIMED = ("so3.build_view_grid", "synthworld.render_embeddings", "codebook.build_codebook",
         "ambiguity.rank_object")
LAYERS = ("so3", "synthworld", "codebook", "ambiguity")
CALLS = ("so3.look_at", "synthworld.render_embedding", "codebook.hypotheses_for_group",
         "ambiguity.most_similar_view", "ambiguity.AmbiguityTable.lookup",
         "ambiguity.AmbiguityTable.lookup_batch", "classify.predict")
OUTPUT_COUNTS = ("ambiguity.saturated_views", "ambiguity.hidden_views") + tuple(
    f"policy.{what}.{pol}" for pol in ("next_best", "random")
    for what in ("views_observed", "moves", "terminated.below_threshold",
                 "terminated.local_optimum", "terminated.move_budget"))


def _cap_blas_threads() -> None:
    """BLAS may use at most as many threads as this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)


def _import_viewrank():
    """viewrank from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "viewrank" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no viewrank sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import viewrank

    if not Path(viewrank.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported viewrank from {viewrank.__file__}, not {SRC}")
    return viewrank


def _observe_render(tracer, obj, quats, *args, **kwargs):
    import numpy as np

    rows = len(np.atleast_2d(quats))
    tracer.count("synthworld.render_embeddings.rows", rows)
    tracer.high("synthworld.render_embeddings.max_weight_mb", rows * obj.n_blobs * 8 / 2**20)


def _fail_rest(run, n_ops: int, since: int, errors: list, exc: Exception) -> None:
    """Operations a raising stage did not get to record count as failed."""
    errors.append(f"{type(exc).__name__}: {exc}")
    missing = max(0, n_ops - (run.attempted - since))
    run.attempted += missing
    run.failed += missing


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int) -> dict:
    viewrank = _import_viewrank()
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    wl = WORKLOADS[name]
    m = wl.manifest(seed)
    tracer = (Tracer(observers={"synthworld.render_embeddings": _observe_render}) if trace
              else Tracer(only=UNTRACED))
    run, errors = Run(), []
    with tracer.install(viewrank):
        st = None
        for _ in range(1 if trace else wl.setups):
            st = None  # release the previous set-up before building the next
            with tracer.span("setup"):
                st = wl.setup(m)
        since = run.attempted
        try:
            with tracer.span("prepare"):
                wl.prepare(m, st, threads)
            wl.check_prepared(m, st, run)
        except Exception as exc:  # noqa: BLE001 - a raising stage fails its operations
            _fail_rest(run, wl.prepare_ops(m) + wl.round_ops(m), since, errors, exc)
        else:
            deadline = time.perf_counter() + seconds
            while True:
                since = run.attempted
                try:
                    with tracer.span("round"):
                        out = wl.round(m, st, threads)
                    wl.check(m, st, out, run)
                except Exception as exc:  # noqa: BLE001
                    _fail_rest(run, wl.round_ops(m), since, errors, exc)
                    break
                # A traced run is one round, so that its counts repeat exactly.
                if trace or time.perf_counter() >= deadline:
                    break

    setups = tracer.durations("stage.setup")
    prepare = float(tracer.durations("stage.prepare").sum())
    rounds = tracer.durations("stage.round")
    if not len(rounds):
        raise SystemExit(f"benchmark: {name} completed no round: {errors}")
    if trace:
        metrics = _per_layer(tracer, run, float(setups.sum() + prepare + rounds.sum()))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}")
    else:
        if wl.views == "episodes":
            views = np.array(run.episode_views, dtype=float)
            samples = tracer.durations("policy.run_episode")[:len(views)] / views
        else:
            samples = tracer.durations("ambiguity.most_similar_view")
        setup_s = float(np.median(setups))
        values = {
            "setup_s": setup_s,
            "wall_s": setup_s + prepare + float(np.median(rounds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rank.views_per_s": run.ranked_views / float(tracer.durations("ambiguity.rank_object").sum()),
            "ops_per_s": wl.round_ops(m) * len(rounds) / float(rounds.sum()),
            "view_ms.p50": float(np.percentile(samples, 50)) * 1e3,
            "view_ms.p90": float(np.percentile(samples, 90)) * 1e3,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "correct": not run.reasons,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": {"rounds": len(rounds), "errors": errors, "check_failures": run.reasons,
                   "counters": run.counters, "notes": run.notes,
                   "setups_s": setups.tolist()},
    }


def _per_layer(tracer, run, wall_s: float) -> dict:
    summary = tracer.summary()
    layers = tracer.layer_self_times()

    def get(fn, key):
        return summary.get(fn, {}).get(key, 0)

    out = {"trace.wall_s": (wall_s, "s")}
    for fn in TIMED:
        out[f"{fn}.s"] = (get(fn, "s"), "s")
    for q in ("p50", "p99"):
        out[f"ambiguity.most_similar_view.ms.{q}"] = (get("ambiguity.most_similar_view", f"ms.{q}"), "ms")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    for fn in CALLS:
        out[f"{fn}.calls"] = (get(fn, "calls"), "count")
    out["synthworld.render_embeddings.rows"] = (
        tracer.counters.get("synthworld.render_embeddings.rows", 0), "count")
    out["synthworld.render_embeddings.max_weight_mb"] = (
        tracer.counters.get("synthworld.render_embeddings.max_weight_mb", 0.0), "MB")
    for name in OUTPUT_COUNTS:
        out[name] = (run.counters.get(name, 0), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _print_summary(result: dict, name: str) -> None:
    d = result["detail"]
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} rounds={d['rounds']}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"  {key:45s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for err in d["errors"]:
        print(f"  error: {err}", file=sys.stderr)
    for reason, n in sorted(d["check_failures"].items(), key=lambda t: -t[1])[:10]:
        print(f"  check failed x{n}: {reason}", file=sys.stderr)


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    _import_viewrank()
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                   "--threads", str(args.threads)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}, no result")
                ok = False
                break
            results[trace] = json.loads(lines[-1])
        if len(results) < 2:
            continue
        untraced, traced = results[0], results[1]
        ok = ok and untraced["correct"] and traced["correct"]
        print(f"{name}: attempted {untraced['attempted']}, failed {untraced['failed']}, "
              f"correct {untraced['correct']} (traced: attempted {traced['attempted']}, "
              f"failed {traced['failed']}, correct {traced['correct']})")
        for kind, res in (("end-to-end", untraced), ("per-layer", traced)):
            for key, m in res["metrics"].items():
                print(f"  {kind:10s} {key:48s} {m['value']:>14.6g} {m['unit']}")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - untraced["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead (traced wall_s - untraced wall_s): {overhead:.3f} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="rank_object threads (the viewrank --threads flag)")
    args = parser.parse_args(argv)
    _cap_blas_threads()
    if args.workload is None:
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.threads)
    _print_summary(result, args.workload)
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
