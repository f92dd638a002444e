"""Manifest resolution, validation, and byte-stable save/load."""

import json
import math

import pytest

from viewrank import manifest
from viewrank.manifest import ManifestError, load, resolve, save


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

    @pytest.mark.parametrize("section, field, value", [
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
    ])
    def test_out_of_range_rejected(self, section, field, value):
        with pytest.raises(ManifestError, match=f"{section}.{field}: must be"):
            resolve({section: {field: value}})

    @pytest.mark.parametrize("section, field, value", [
        ("ranking", "descent_steps", 0),
        ("ranking", "coarse_dirs", 1),
        ("codebook", "n_dirs", 1),
        ("codebook", "n_inplane", 1),
        ("world", "patch_radius", 1e-3),
        ("world", "patch_radius", 1.5),
        ("world", "descriptor_dim", 2),
        ("world", "n_blobs", 4),
    ])
    def test_range_edges_accepted(self, section, field, value):
        assert resolve({section: {field: value}})[section][field] == value


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
