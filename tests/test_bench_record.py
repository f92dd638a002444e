"""tools/bench_record.py: pair summaries and the --claim option, with every
benchmark and CLI run replaced by a stub."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
SPEC = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(*values, name="wall_s"):
    return [{"metrics": {} if v is None else {name: v}} for v in values]


def metric(name="wall_s", better="lower"):
    return {"name": name, "unit": "s", "better": better, "bound": 0.25}


class TestSummarize:
    def test_ties_count_for_neither_side(self, tool):
        row = tool.summarize(runs(2.0, 2.0, 2.0, 1.0), runs(1.0, 2.0, 3.0, 1.0),
                             [metric()])["wall_s"]
        assert (row["wins"], row["pairs"]) == (1, 4)
        higher = tool.summarize(runs(2.0, 2.0, 2.0), runs(1.0, 2.0, 3.0),
                                [metric(better="higher")])["wall_s"]
        assert higher["wins"] == 1

    def test_quartiles_of_each_side(self, tool):
        row = tool.summarize(runs(1.0, 2.0, 3.0, 4.0, 5.0), runs(5.0, 5.0, 5.0, 5.0, 5.0),
                             [metric()])["wall_s"]
        assert (row["parent"]["q1"], row["parent"]["median"], row["parent"]["q3"]) == (2, 3, 4)
        assert row["parent"]["iqr"] == 2.0 and row["change"]["iqr"] == 0.0

    def test_metric_missing_on_either_side_is_skipped(self, tool):
        spec = [metric(), metric("ops_per_s", "higher")]
        both = runs(1.0, 1.0)
        assert set(tool.summarize(both, runs(1.0, None), spec)) == set()
        assert set(tool.summarize(runs(None, 1.0), both, spec)) == set()
        assert set(tool.summarize(both, both, spec)) == {"wall_s"}


@pytest.fixture
def stubbed(tool, monkeypatch):
    """``tool`` with every child process stubbed; returns the ``(workload,
    seed)`` of each ``pairs`` call."""
    calls = []

    def fake_pairs(trees, workload, n, seconds, seed):
        calls.append((workload, seed))
        one = {"failed": 0, "correct": True, "metrics": {"ops_per_s": 1.0}}
        return {"parent": [one] * n, "change": [one] * n}

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was not stubbed")

    monkeypatch.setattr(tool, "bench_run", no_run)
    monkeypatch.setattr(tool, "pairs", fake_pairs)
    monkeypatch.setattr(tool, "commit", lambda tree: "0" * 40)
    monkeypatch.setattr(tool, "machine", lambda: {})
    monkeypatch.setattr(tool, "import_figures", lambda tree: {})
    monkeypatch.setattr(tool, "cli_figures", lambda tree, outputs: {})
    monkeypatch.setattr(tool, "output_identity", lambda outputs: {})
    monkeypatch.setattr(tool, "codebook_figures", lambda tree: {})
    return calls


def record(tool, tmp_path, *extra):
    out = tmp_path / "BENCH_test.json"
    assert tool.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                      "--out", str(out), "--pairs", "2", *extra]) == 0
    return json.loads(out.read_text())


class TestClaim:
    def test_no_claim_runs_no_second_seed(self, tool, stubbed, tmp_path):
        rec = record(tool, tmp_path, "--seed", "3")
        assert stubbed == [(w, 3) for w in WORKLOADS]
        assert rec["protocol"]["claim"] is None
        assert "claim_seed_run" not in rec

    def test_claim_repeats_its_workload_on_its_seed(self, tool, stubbed, tmp_path):
        rec = record(tool, tmp_path, "--claim", "episodes-default:ops_per_s:5")
        assert stubbed == [(w, 0) for w in WORKLOADS] + [("episodes-default", 5)]
        assert rec["protocol"]["claim"] == {"workload": "episodes-default",
                                            "metric": "ops_per_s", "seed": 5}
        assert set(rec["claim_seed_run"]) == {"ops_per_s"}

    @pytest.mark.parametrize("claim", [
        "", "episodes-default", "episodes-default:ops_per_s", "episodes-default:ops_per_s:5:6",
        "episodes-default:ops_per_s:five", "nope:ops_per_s:5", "episodes-default:nope:5",
        "episodes-default:so3.build_view_grid.s:5",
    ])
    def test_malformed_or_unknown_claim_refused(self, tool, stubbed, tmp_path, claim):
        with pytest.raises(SystemExit) as exc:
            tool.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                       "--out", str(tmp_path / "x.json"), "--claim", claim])
        assert exc.value.code == 2
        assert stubbed == []
        assert not (tmp_path / "x.json").exists()
