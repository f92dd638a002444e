"""End-to-end CLI runs against small manifests in temporary directories."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewrank import baselines, cli, manifest

SMALL_MANIFEST = {
    "seed": 0,
    "world": {"n_blobs": 64, "descriptor_dim": 16},
    "codebook": {"n_dirs": 128, "n_inplane": 8},
    "ranking": {"coarse_dirs": 32, "descent_steps": 4},
    "sweep": {
        "thresholds": [0.5, 1.0],
        "caps": [0.5, 1.0],
        "trials": 2,
        "eval_samples": 20,
    },
    "policy": {
        "episodes": 6,
        "reachable": {"kind": "trajectory", "circles": 3, "steps": 8},
    },
    "compare": {"sigmas": [0.0, 0.5]},
}


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifests") / "small.json"
    path.write_text(json.dumps(SMALL_MANIFEST))
    return path


def run(manifest_path, out, command, *extra):
    return cli.main(
        [command, "--manifest", str(manifest_path), "--out", str(out), *extra]
    )


def file_hashes(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.is_file()
    }


@pytest.fixture(scope="module")
def out(tmp_path_factory, manifest_path):
    out = tmp_path_factory.mktemp("rank")
    assert run(manifest_path, out, "rank") == 0
    return out


class TestRank:
    def test_outputs_exist(self, out):
        names = {p.name for p in out.iterdir()}
        assert names == {
            "ambiguity_A.json", "ambiguity_B.json",
            "sorted_pairs_A.csv", "sorted_pairs_B.csv",
            "hashes.json", "manifest.resolved.json",
        }

    def test_tables_load(self, out, assert_table_json):
        m = manifest.load(out / "manifest.resolved.json")
        objects = cli._build_world(m)
        tables = cli._build_tables(m, objects, cli._build_codebooks(m, objects))
        for cls in ("A", "B"):
            assert len(tables[cls]) == SMALL_MANIFEST["ranking"]["coarse_dirs"]
            assert_table_json(out / f"ambiguity_{cls}.json", tables[cls])

    def test_hashes_match_files(self, out):
        hashes = json.loads((out / "hashes.json").read_text())
        for name, digest in hashes.items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_resolved_manifest_reproduces(self, out, tmp_path):
        # Rerunning from the resolved manifest gives byte-identical outputs.
        out2 = tmp_path / "again"
        assert run(out / "manifest.resolved.json", out2, "rank") == 0
        h1 = file_hashes(out)
        h2 = file_hashes(out2)
        h1.pop("manifest.resolved.json")
        h2.pop("manifest.resolved.json")
        assert h1 == h2

    def test_threads_do_not_change_outputs(self, out, manifest_path, tmp_path):
        out2 = tmp_path / "threaded"
        assert run(manifest_path, out2, "rank", "--threads", "4") == 0
        assert file_hashes(out) == file_hashes(out2)

    def test_seed_changes_outputs(self, out, manifest_path, tmp_path):
        out2 = tmp_path / "reseeded"
        assert run(manifest_path, out2, "rank", "--seed", "1") == 0
        h2 = file_hashes(out2)
        assert h2["ambiguity_A.json"] != file_hashes(out)["ambiguity_A.json"]
        resolved = json.loads((out2 / "manifest.resolved.json").read_text())
        assert resolved["seed"] == 1


class TestSweep:
    def test_csv_grid(self, tmp_path, manifest_path):
        assert run(manifest_path, tmp_path, "sweep") == 0
        with open(tmp_path / "sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["train_threshold", "eval_ambiguity_cap", "accuracy",
                           "n_samples", "status"]
        assert len(rows) == 1 + 2 * 2
        for row in rows[1:]:
            assert row[4] == "ok"
            assert 0.0 <= float(row[2]) <= 1.0

    def test_empty_eval_cap(self, tmp_path):
        m = json.loads(json.dumps(SMALL_MANIFEST))
        m["sweep"]["caps"] = [0.0]
        path = tmp_path / "caps0.json"
        path.write_text(json.dumps(m))
        out = tmp_path / "out"
        assert run(path, out, "sweep") == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2
        for row in rows[1:]:
            assert row[1:] == ["0", "", "0", "empty_eval"]


class TestSimulate:
    def test_outputs(self, tmp_path, manifest_path):
        assert run(manifest_path, tmp_path, "simulate") == 0
        for pol in ("next_best", "random"):
            lines = (tmp_path / f"episodes_{pol}.jsonl").read_text().splitlines()
            assert len(lines) == SMALL_MANIFEST["policy"]["episodes"]
            json.loads(lines[0])
        with open(tmp_path / "success_vs_budget.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["budget", "next_best", "random"]
        assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0


class TestCompare:
    def test_outputs(self, tmp_path, manifest_path):
        assert run(manifest_path, tmp_path, "compare") == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"metric_primary.csv", "metric_mse.csv", "metric_blob_match.csv",
                "metric_correlations.csv", "noise_robustness.csv"} <= names
        with open(tmp_path / "metric_correlations.csv", newline="") as f:
            rows = list(csv.reader(f))
        by_metric = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert by_metric["primary"] == (1.0, 1.0)
        for sp, pe in by_metric.values():
            assert -1.0 <= sp <= 1.0 and -1.0 <= pe <= 1.0
        with open(tmp_path / "noise_robustness.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == 1.0


# Every command in a fresh process whose every scipy import fails: a command
# that needed scipy would exit 1.
NUMPY_ONLY_PROBE = """
import sys
sys.modules["scipy"] = None
from viewrank import cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert loaded == ["scipy"], loaded
manifest_path, out = sys.argv[1:]
print(*(cli.main([command, "--manifest", manifest_path, "--out", f"{out}/{command}"])
        for command in ("rank", "sweep", "simulate", "compare")))
"""


def test_commands_run_without_scipy(tmp_path, manifest_path):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    codes = subprocess.run([sys.executable, "-c", NUMPY_ONLY_PROBE, str(manifest_path),
                            str(tmp_path)], env=env, capture_output=True, text=True,
                           check=True).stdout.split()
    assert codes == ["0"] * 4
    for out in tmp_path.iterdir():
        hashes = json.loads((out / "hashes.json").read_text())
        written = file_hashes(out)
        assert set(written) - set(hashes) == {"hashes.json", "manifest.resolved.json"}
        assert hashes == {name: written[name] for name in hashes}


def finite_leaves(value):
    """Every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(finite_leaves(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_leaves(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


class TestHugeNoise:
    """A noise level whose squared embedding norm, or whose centroid sum,
    overflows still gives honest, finite results."""

    @pytest.mark.parametrize("section, field, value, command", [
        ("sweep", "noise_factor", 1e300, "sweep"),
        ("policy", "noise_factor", 1e300, "simulate"),
        ("compare", "sigmas", [0.0, 1e300], "compare"),
        ("sweep", "noise_factor", 1e307, "sweep"),
        ("policy", "noise_factor", 1e307, "simulate"),
    ])
    def test_exits_0_with_finite_outputs(self, tmp_path, section, field, value, command):
        m = json.loads(json.dumps(SMALL_MANIFEST))
        m[section][field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(m))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(path, out, command) == 0
        for p in out.iterdir():
            if p.suffix == ".csv":
                with open(p, newline="") as f:
                    for row in csv.reader(f):
                        for cell in row:
                            try:
                                x = float(cell)
                            except ValueError:
                                continue
                            assert math.isfinite(x), (p.name, row)
            elif p.suffix == ".jsonl":
                for line in p.read_text().splitlines():
                    assert finite_leaves(json.loads(line)), p.name


class TestErrors:
    def test_corrupt_manifest_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "out"
        assert run(bad, out, "rank") == 2
        assert not out.exists()

    def test_unknown_field_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"world": {"seed_offset": 1}}))
        out = tmp_path / "out"
        assert run(bad, out, "rank") == 2
        assert not out.exists()

    # A noise factor of 1e308 passes the manifest, but its noise sigma is inf;
    # a patch radius of 1e-3 passes it, but no blob lands in so small a patch.
    # Both are refused after the staging directory is made, so --out is
    # nested: its missing parents must not be left behind either.
    @pytest.mark.parametrize("section, field, value, command", [
        pytest.param("sweep", "noise_factor", -0.5, "sweep", id="sweep-sweep"),
        pytest.param("policy", "noise_factor", -0.5, "simulate", id="policy-simulate"),
        pytest.param("sweep", "noise_factor", 1e308, "sweep", id="sweep-sweep-1e308"),
        pytest.param("policy", "noise_factor", 1e308, "simulate", id="policy-simulate-1e308"),
        pytest.param("compare", "sigmas", [0.0, 1e308], "compare", id="compare-compare-1e308"),
        pytest.param("world", "patch_radius", 1e-3, "sweep", id="world-sweep-1e-3"),
    ])
    def test_negative_noise_factor_exits_2(self, tmp_path, section, field, value, command):
        m = json.loads(json.dumps(SMALL_MANIFEST))
        m[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(m))
        out = tmp_path / "nested" / "deeper" / "out"
        assert run(bad, out, command) == 2
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("text", [
        '{"ranking": {"descent_steps": -1}}',
        '{"ranking": {"coarse_dirs": 0}}',
        '{"codebook": {"n_dirs": 0}}',
        '{"world": {"patch_radius": 2.0}}',
        '{"world": {"descriptor_dim": 31}}',
        '{"seed": 1, "seed": 2}',
        '{"policy": {"threshold": 0.0}}',
        '{"policy": {"train_threshold": 0.0}}',
        '{"policy": {"episodes": 0}}',
        '{"policy": {"max_moves": -1}}',
        '{"policy": {"noise_factor": Infinity}}',
        '{"policy": {"reachable": {"circles": 0}}}',
        '{"policy": {"reachable": {"steps": 0}}}',
        '{"policy": {"reachable": {"kind": "sphere", "sphere_dirs": 0}}}',
        '{"policy": {"reachable": {"kind": "trajectory", "sphere_dirs": 0}}}',
        '{"sweep": {"trials": 0}}',
        '{"sweep": {"eval_samples": 0}}',
        '{"sweep": {"samples_per_rotation": 0}}',
        '{"sweep": {"train_rotations_per_class": 0}}',
        '{"sweep": {"thresholds": [1.5]}}',
        '{"sweep": {"caps": ["x"]}}',
        '{"sweep": {"noise_factor": Infinity}}',
        '{"compare": {"metrics": ["x"]}}',
        '{"compare": {"sigmas": []}}',
        '{"compare": {"sigmas": [-1]}}',
        '{"compare": {"sigmas": [Infinity]}}',
        '{"world": {"patch_center": [0, 0, 0]}}',
        '{"world": {"patch_center": [1e200, 1e200, 0]}}',
    ])
    def test_out_of_range_or_duplicate_exits_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert run(bad, out, "rank") == 2
        assert not out.exists()

    @pytest.fixture
    def failing_compare(self, monkeypatch):
        # The noise sweep runs after the metric CSVs are written; its failure
        # must leave neither those CSVs nor the staging directory behind.
        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(baselines, "noise_robustness_sweep", fail)

    def test_failed_command_leaves_no_outputs(self, tmp_path, manifest_path, failing_compare):
        out = tmp_path / "out"
        assert run(manifest_path, out, "compare") == 1
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_command_keeps_existing_out(self, tmp_path, manifest_path, failing_compare):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("earlier run")
        assert run(manifest_path, out, "compare") == 1
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "earlier run"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_runtime_failure_creates_no_out(self, tmp_path, manifest_path, failing_compare):
        out = tmp_path / "nested" / "out"
        assert run(manifest_path, out, "compare") == 1
        assert not out.exists()
        assert not (tmp_path / "nested").exists()
        assert list(tmp_path.iterdir()) == []

    def test_missing_manifest_exits_2(self, tmp_path):
        assert run(tmp_path / "nope.json", tmp_path / "out", "rank") == 2

    def test_bad_threads_exits_2(self, tmp_path, manifest_path):
        assert run(manifest_path, tmp_path / "out", "rank", "--threads", "0") == 2

    def test_no_manifest_uses_defaults(self, tmp_path):
        # No manifest flag is valid; the sweep defaults are too slow for a
        # unit test so only check that parsing reaches the command with a
        # fully resolved manifest (by pointing at an unwritable output).
        out = tmp_path / "file-in-the-way"
        out.write_text("occupied")
        assert cli.main(["rank", "--out", str(out)]) == 1


# Manifest fuzzing: one leaf of SMALL_MANIFEST gets a drawn value.  Integers
# are drawn at most COUNT_CAP, since a count with no upper bound can exhaust
# memory.
COUNT_CAP = 64
ODD_VALUES = st.one_of(
    st.integers(-3, COUNT_CAP),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, -1.0, 1e-3, math.pi / 2.0, 1e-300, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["sphere", "trajectory", *baselines.METRIC_NAMES]),
    st.none(),
    st.dictionaries(st.sampled_from(["kind", "x"]), st.integers(0, 3), max_size=1),
)
IN_RANGE_LISTS = {
    "world.patch_center": st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    "sweep.thresholds": st.lists(st.floats(0.0, 1.0) | st.sampled_from([0, 1]), max_size=4),
    "sweep.caps": st.lists(st.floats(0.0, 1.0) | st.sampled_from([0, 1]), max_size=4),
    "compare.metrics": st.lists(st.sampled_from(baselines.METRIC_NAMES), max_size=4),
    "compare.sigmas": st.lists(st.floats(0.0, 2.0) | st.sampled_from([0, 1e307]), max_size=4),
}
COMMAND_OUTPUTS = {
    "rank": {"ambiguity_A.json", "ambiguity_B.json", "sorted_pairs_A.csv",
             "sorted_pairs_B.csv"},
    "sweep": {"sweep.csv"},
    "simulate": {"episodes_next_best.jsonl", "episodes_random.jsonl", "success_vs_budget.csv"},
    "compare": {"metric_correlations.csv", "noise_robustness.csv"},
}


def in_range(path):
    """Values of the field's type, mostly in its range or on a boundary."""
    if path in IN_RANGE_LISTS:
        return IN_RANGE_LISTS[path]
    kind = manifest.FIELDS[path][1]
    if kind is int:
        return st.integers(0, COUNT_CAP)
    if kind is str:
        return st.sampled_from(["trajectory", "sphere", "pair-1"])
    return st.floats(0.0, 2.0)


@st.composite
def one_field_manifests(draw):
    path = draw(st.sampled_from(sorted(manifest.FIELDS)))
    m = json.loads(json.dumps(SMALL_MANIFEST))
    *sections, leaf = path.split(".")
    node = m
    for key in sections:
        node = node.setdefault(key, {})
    node[leaf] = draw(in_range(path) | ODD_VALUES | st.lists(ODD_VALUES, max_size=4))
    return m


@settings(max_examples=100, deadline=None)
@given(m=one_field_manifests(), command=st.sampled_from(sorted(COMMAND_OUTPUTS)))
@example(m={**SMALL_MANIFEST, "world": {**SMALL_MANIFEST["world"], "patch_radius": 1e-3}},
         command="rank")
def test_any_one_field_manifest_runs_or_is_refused(m, command):
    # Exit 0 leaves every output, each matching hashes.json; exit 2 leaves
    # neither --out nor its missing parent; exit 1 is never right.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(m))
        out = Path(tmp) / "nested" / "out"
        code = run(path, out, command)
        assert code in (0, 2), m
        if code == 2:
            assert not out.parent.exists()
            assert list(Path(tmp).iterdir()) == [path]
            return
        hashes = json.loads((out / "hashes.json").read_text())
        assert COMMAND_OUTPUTS[command] <= set(hashes)
        written = file_hashes(out)
        assert set(written) == set(hashes) | {"hashes.json", "manifest.resolved.json"}
        assert hashes == {name: written[name] for name in hashes}
