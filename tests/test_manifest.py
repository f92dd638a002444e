"""Manifest resolution, validation, and byte-stable save/load."""

import json
import math
import re
import sys

import pytest

from viewrank import manifest
from viewrank.manifest import ManifestError, load, resolve, save

INF = float("inf")
NAN = float("nan")
BIG = sys.float_info.max


def nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def leaf(m, path):
    for key in path.split("."):
        m = m[key]
    return m


# (section, field, value); section "" is the top level.
OUT_OF_RANGE = [
    ("ranking", "descent_steps", -1),
    ("ranking", "coarse_dirs", 0),
    ("codebook", "n_dirs", 0),
    ("codebook", "n_inplane", 0),
    ("world", "patch_radius", 2.0),
    ("world", "patch_radius", 0.0),
    ("world", "patch_radius", math.pi / 2.0),
    ("world", "patch_radius", float("nan")),
    ("world", "descriptor_dim", 31),
    ("world", "descriptor_dim", 0),
    ("world", "n_blobs", 3),
    ("", "schema_version", 0),
    ("", "schema_version", 2),
    ("world", "patch_center", [0, 0, 0]),
    ("world", "patch_center", [1.0, 0.0]),
    ("world", "patch_center", [1.0, 0.0, 0.0, 0.0]),
    ("world", "patch_center", [INF, 0.0, 0.0]),
    ("world", "patch_center", [NAN, 1.0, 0.0]),
    ("world", "patch_center", [1, "x", 0]),
    ("world", "patch_center", [10**400, 0, 0]),  # an int no float holds
    ("world", "patch_center", [1e200, 1e200, 0.0]),  # the norm overflows
    ("world", "patch_center", [1e-200, 0.0, 0.0]),  # the norm underflows to 0
    ("sweep", "thresholds", [1.5]),
    ("sweep", "thresholds", [0.5, -1e-9]),
    ("sweep", "thresholds", ["x"]),
    ("sweep", "thresholds", [NAN]),
    ("sweep", "caps", [1.0 + 1e-9]),
    ("sweep", "caps", [True]),
    ("sweep", "trials", 0),
    ("sweep", "eval_samples", 0),
    ("sweep", "samples_per_rotation", 0),
    ("sweep", "train_rotations_per_class", 0),
    ("sweep", "noise_factor", INF),
    ("policy", "episodes", 0),
    ("policy", "threshold", 0.0),
    ("policy", "threshold", 1.0 + 1e-9),
    ("policy", "threshold", NAN),
    ("policy", "max_moves", -1),
    ("policy", "noise_factor", INF),
    ("policy", "train_threshold", 0.0),
    ("policy", "train_threshold", 1.5),
    ("policy.reachable", "kind", "teleport"),
    ("policy.reachable", "circles", 0),
    ("policy.reachable", "steps", 0),
    ("policy.reachable", "sphere_dirs", 0),
    ("compare", "metrics", ["x"]),
    ("compare", "metrics", ["primary", "MSE"]),
    ("compare", "sigmas", []),
    ("compare", "sigmas", [0.0, -1.0]),
    ("compare", "sigmas", [INF]),
    ("compare", "sigmas", [NAN]),
    ("compare", "sigmas", ["x"]),
]

IN_RANGE = [
    ("ranking", "descent_steps", 0),
    ("ranking", "coarse_dirs", 1),
    ("codebook", "n_dirs", 1),
    ("codebook", "n_inplane", 1),
    ("world", "patch_radius", 1e-3),
    ("world", "patch_radius", 1.5),
    ("world", "descriptor_dim", 2),
    ("world", "n_blobs", 4),
    ("", "schema_version", 1),
    ("world", "patch_center", [0, 0, -1]),
    ("world", "patch_center", [1e150, 1e150, 0.0]),
    ("world", "patch_center", [1e-150, 0.0, 0.0]),
    ("sweep", "thresholds", [0, 1.0]),
    ("sweep", "thresholds", []),
    ("sweep", "caps", [0.0, 1]),
    ("sweep", "trials", 1),
    ("sweep", "eval_samples", 1),
    ("sweep", "samples_per_rotation", 1),
    ("sweep", "train_rotations_per_class", 1),
    ("sweep", "noise_factor", BIG),
    ("policy", "episodes", 1),
    ("policy", "threshold", 1e-9),
    ("policy", "threshold", 1),
    ("policy", "max_moves", 0),
    ("policy", "noise_factor", 0),
    ("policy", "train_threshold", 1.0),
    ("policy.reachable", "kind", "sphere"),
    ("policy.reachable", "circles", 1),
    ("policy.reachable", "steps", 1),
    ("policy.reachable", "sphere_dirs", 1),
    ("compare", "metrics", []),
    ("compare", "metrics", ["blob_match", "primary"]),
    ("compare", "sigmas", [0]),
    ("compare", "sigmas", [0.0, BIG]),
]


def path_of(section, field):
    return f"{section}.{field}" if section else field


@pytest.mark.parametrize("path", list(manifest.FIELDS))
def test_schema_row(path):
    default, _, ok, _ = manifest.FIELDS[path]
    assert leaf(manifest.DEFAULTS, path) == default
    assert leaf(resolve(nested(path, default)), path) == default
    wrong = 1 if isinstance(default, str) else "x"
    with pytest.raises(ManifestError, match=f"^{re.escape(path)}: expected"):
        resolve(nested(path, wrong))
    if ok is not None:
        assert path in {path_of(s, f) for s, f, _ in OUT_OF_RANGE}
        assert path in {path_of(s, f) for s, f, _ in IN_RANGE}


class TestResolve:
    def test_empty_gives_defaults(self):
        m = resolve(None)
        assert m == manifest.DEFAULTS
        assert m is not manifest.DEFAULTS  # deep copy, not an alias
        assert resolve({}) == manifest.DEFAULTS

    def test_partial_override(self):
        m = resolve({"seed": 7, "sweep": {"trials": 3}})
        assert m["seed"] == 7
        assert m["sweep"]["trials"] == 3
        # Untouched fields keep their defaults.
        assert m["sweep"]["eval_samples"] == manifest.DEFAULTS["sweep"]["eval_samples"]
        assert m["world"] == manifest.DEFAULTS["world"]

    def test_does_not_mutate_input_or_defaults(self):
        data = {"world": {"n_blobs": 64}}
        resolve(data)
        assert data == {"world": {"n_blobs": 64}}
        assert manifest.DEFAULTS["world"]["n_blobs"] == 512

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ManifestError, match="world.seed_offset"):
            resolve({"world": {"seed_offset": 1}})
        with pytest.raises(ManifestError, match="frobnicate"):
            resolve({"frobnicate": True})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ManifestError):
            resolve({"seed": "zero"})
        with pytest.raises(ManifestError):
            resolve({"sweep": {"trials": 2.5}})

    def test_bool_is_not_int(self):
        with pytest.raises(ManifestError):
            resolve({"sweep": {"trials": True}})

    def test_schema_version_checked(self):
        with pytest.raises(ManifestError, match="schema_version"):
            resolve({"schema_version": 99})

    def test_reachable_kind_checked(self):
        with pytest.raises(ManifestError):
            resolve({"policy": {"reachable": {"kind": "teleport"}}})
        assert resolve({"policy": {"reachable": {"kind": "sphere"}}})[
            "policy"]["reachable"]["kind"] == "sphere"

    def test_patch_center_length_checked(self):
        with pytest.raises(ManifestError):
            resolve({"world": {"patch_center": [1.0, 0.0]}})

    def test_negative_noise_factor_rejected(self):
        for section in ("sweep", "policy"):
            with pytest.raises(ManifestError, match=f"{section}.noise_factor"):
                resolve({section: {"noise_factor": -0.1}})
            with pytest.raises(ManifestError, match=f"{section}.noise_factor"):
                resolve({section: {"noise_factor": float("nan")}})
            assert resolve({section: {"noise_factor": 0}})[section]["noise_factor"] == 0

    @pytest.mark.parametrize("section, field, value", OUT_OF_RANGE)
    def test_out_of_range_rejected(self, section, field, value):
        path = path_of(section, field)
        with pytest.raises(ManifestError, match=f"^{re.escape(path)}: must be"):
            resolve(nested(path, value))

    @pytest.mark.parametrize("section, field, value", IN_RANGE)
    def test_range_edges_accepted(self, section, field, value):
        path = path_of(section, field)
        assert leaf(resolve(nested(path, value)), path) == value


class TestLoadSave:
    def test_roundtrip(self, tmp_path):
        m = resolve({"seed": 3, "codebook": {"n_dirs": 128}})
        path = tmp_path / "m.json"
        save(m, path)
        assert load(path) == m

    def test_save_is_byte_stable(self, tmp_path):
        m = resolve({"seed": 3})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(m, p1)
        save(m, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load(tmp_path / "nope.json")

    def test_load_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            load(path)

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"world": {"bogus": 1}}))
        with pytest.raises(ManifestError, match="world.bogus"):
            load(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"seed": 1, "seed": 2}')
        with pytest.raises(ManifestError, match="duplicate field: seed"):
            load(path)
        path.write_text('{"sweep": {"trials": 2, "eval_samples": 5, "trials": 3}}')
        with pytest.raises(ManifestError, match="duplicate field: trials"):
            load(path)

    def test_default_patch_radius(self):
        assert resolve(None)["world"]["patch_radius"] == pytest.approx(math.pi / 3.0)
